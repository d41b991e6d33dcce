"""Deterministic golden-section search.

One-dimensional maximization inside a bracket whose ends the caller has
already scanned.  No code in the package calls it: the recursion takes
its maximizers from the family records and the Bellman backup scans the
increment lattice alone.  Identical inputs produce bit-identical
outputs: no randomness, fixed iteration counts, and ties resolved
toward the probe made first.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = [
    "golden_max",
]

# Inverse golden ratio: the contraction factor.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(fn: Callable[[float], float], lo: float, hi: float,
               iters: int = 60) -> tuple[float, float]:
    """Golden-section search for a maximum of ``fn`` inside ``[lo, hi]``.

    Probes ``c < d``, then makes up to ``iters`` contractions of one new
    probe each, so ``fn`` runs at most ``iters + 2`` times; it stops
    early at float resolution of the starting bracket.  The ends are
    never probed, since callers have scanned them.  Each probe is
    compared once, with strict ``>``, so the earlier one keeps a tie.
    Returns ``(value, argmax)``.
    """
    stop = 1e-14 * max(1.0, abs(lo), abs(hi))
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = fn(c), fn(d)
    best_v, best_x = (fd, d) if fd > fc else (fc, c)
    for _ in range(iters):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = x = hi - _INVPHI * (hi - lo)
            fc = v = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = x = lo + _INVPHI * (hi - lo)
            fd = v = fn(d)
        if v > best_v:
            best_v, best_x = v, x
        if hi - lo <= stop:
            break
    return best_v, best_x
