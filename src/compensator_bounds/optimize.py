"""Deterministic scalar numeric primitives shared across the solvers.

Bisection for monotone root finding, plus golden-section search for
one-dimensional maximization on a closed interval.  Identical inputs
produce bit-identical outputs: no randomness, fixed iteration counts,
and ties resolved toward the smallest abscissa.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = [
    "bisect_root",
    "golden_max",
]

# Inverse golden ratio: contraction factor of the section search.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def bisect_root(fn: Callable[[float], float], lo: float, hi: float,
                tol: float = 1e-12) -> float:
    """Root of ``fn`` on ``[lo, hi]`` located by bisection.

    ``fn(lo)`` and ``fn(hi)`` must have opposite (weak) signs.  Stops when
    the bracket is narrower than ``tol`` or an exact zero is hit, so the
    result is within ``tol`` of a sign change of ``fn``.
    """
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Bracket has collapsed to two adjacent floats.
            break
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_max(fn: Callable[[float], float], lo: float, hi: float,
               iters: int = 60) -> tuple[float, float]:
    """Golden-section search for a maximum of ``fn`` on ``[lo, hi]``.

    Runs a fixed number of contractions (early exit once the bracket is
    at float resolution) and returns ``(value, argmax)`` over every point
    probed, including the original endpoints.
    """
    best_x, best_v = lo, fn(lo)
    v_hi = fn(hi)
    if v_hi > best_v:
        best_x, best_v = hi, v_hi

    width = hi - lo
    c = hi - _INVPHI * width
    d = lo + _INVPHI * width
    fc = fn(c)
    fd = fn(d)
    for _ in range(iters):
        if fc > best_v:
            best_x, best_v = c, fc
        if fd > best_v:
            best_x, best_v = d, fd
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = fn(d)
        if hi - lo <= 1e-14 * max(1.0, abs(lo), abs(hi)):
            break
    for x, v in ((c, fc), (d, fd)):
        if v > best_v:
            best_x, best_v = x, v
    return best_v, best_x
