"""Finite-horizon value iteration for the worst-case compensator.

State is a pair ``(x, y)``: the current value of the submartingale and
the compensator accumulated so far.  With ``n`` steps to go, the
controller picks a predictable increment ``a in [0, 1 - x]``; the chain
then jumps to the absorbing ceiling ``x = 1`` with probability ``x + a``
(collecting ``f(y + a)`` at the end) or falls back to ``x = 0`` with the
complementary probability.  The value tables computed here store the
``x = 0`` slice on a uniform ``y``-grid with linear interpolation;
general ``x`` is reconstructed on demand from that slice.

Every backup maximizes over increments that come from the grid alone:
``a_k = min(k * step, 1 - x)`` for ``k = 0 .. ceil(1 / step)``, that is,
the grid lattice plus ``a = 1`` when ``step`` does not divide 1.  The
tables hold values only; ``extremal_policy`` derives the actions from
them, each the first increment that attains the maximum, so ties go to
the smallest increment.  On whole-grid ``x = 0`` layers ``f(y + a)`` and
``V_{n-1}(y + a)`` are plain slices, so no ``x = 0`` node reads an
interpolated value.  On its trusted nodes (below) each such layer is the
exact value of the control problem whose increments lie on the lattice,
and ``V[n, 0]`` is ``E f(Y_n)`` for the chain that follows those
actions: a lower bound on the supremum over all increments.

One pruned scan of the lattice serves full tables, trusted tables and
``extremal_policy``.  It cuts the offsets into blocks of about
``sqrt(2 K)`` consecutive ones (``sqrt K`` for the policy), evaluates
every block end at every node, and evaluates a block's interior only at
the nodes where a second-order bound on it reaches the best value
already computed there (the block rule of ``value_iteration``).  A skipped objective lies strictly below
a computed one, so the values and first-hit actions are those of the
plain scan of every increment, bit for bit.

Reads past the top of the grid clamp to the last value, so the layer for
``n`` steps to go is only trustworthy for ``y <= y_max - n``; build
tables with ``y_max >= horizon`` (plus slack if general-``x`` queries at
large ``y`` are needed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import FunctionSpec, is_class_s_family
from .recursion import SolverConfig, recursion_sequence

__all__ = [
    "GridConfig",
    "ValueTable",
    "Lemma1Report",
    "BoundComparison",
    "grid_error_budget",
    "value_iteration",
    "full_value",
    "extremal_policy",
    "ExtremalPolicy",
    "verify_lemma1",
    "compare_bounds",
]


@dataclass(frozen=True)
class GridConfig:
    """Uniform ``y``-grid: ``[0, y_max]`` in steps of ``step``."""

    y_max: float
    step: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.y_max) and math.isfinite(self.step)):
            raise ValueError(f"grid y_max {self.y_max!r} and step "
                             f"{self.step!r} must be finite")
        if self.y_max <= 0.0:
            raise ValueError("y_max must be > 0")
        if self.step <= 0.0 or self.step > self.y_max:
            raise ValueError("step must lie in (0, y_max]")
        # points() spaces the nodes y_max / (n - 1) apart while reads
        # interpolate with step, so the two must agree.
        if not math.isclose((self.n_points - 1) * self.step, self.y_max,
                            rel_tol=1e-12):
            raise ValueError(f"step {self.step!r} does not divide "
                             f"y_max {self.y_max!r}")

    @property
    def n_points(self) -> int:
        return int(round(self.y_max / self.step)) + 1

    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.y_max, self.n_points)


def grid_error_budget(step: float) -> float:
    """Absolute error allowance for grid-interpolated values.

    Linear interpolation of the convex layers overestimates off the
    nodes by O(step^2) per layer, and the increment lattice keeps the
    ``x = 0`` nodes below the continuous optimum; ``2 * step`` is a
    deliberately generous cover for every horizon used here (the
    refinement study in the test suite shows actual step-halving
    differences orders of magnitude smaller).
    """
    return 2.0 * step


# ----------------------------------------------------------------------
# interpolated reads


def _interp(V: np.ndarray, step: float, q) -> np.ndarray:
    """Linear interpolation of layer values on the uniform grid at
    ``q``, with reads past the top edge clamped to the last value."""
    w = np.asarray(q, dtype=float) / step
    # The cell index, clamped to the grid while still a float; w becomes
    # the weight of the cell's right end.
    cell = np.maximum(np.minimum(np.floor(w), len(V) - 1), 0.0)
    w -= cell
    idx = cell.astype(np.intp)
    return (V.take(idx, mode="clip") * (1.0 - w)
            + V.take(idx + 1, mode="clip") * w)


# ----------------------------------------------------------------------
# the x = 0 backup


def _lattice_increments(step: float) -> tuple[np.ndarray, np.ndarray]:
    """The increments at ``x = 0``: their offsets in grid cells,
    every cell up to ``a = 1``, and their values, with ``a = 1``
    appended when no offset reaches it."""
    cells = math.floor(1.0 / step * (1.0 + 1e-12))
    offsets = np.arange(cells + 1)
    a_cand = np.minimum(offsets * step, 1.0)
    if not math.isclose(a_cand[-1], 1.0, rel_tol=1e-12):
        a_cand = np.append(a_cand, 1.0)
    return offsets, a_cand


def _lattice(spec: FunctionSpec, grid: GridConfig) -> tuple:
    """``(offsets, a_cand, f_ext, f_one)``: the increments at ``x = 0``
    and the ``f`` reads of their backups.  ``f_ext`` is ``f`` on the
    grid extended ``offsets[-1]`` cells past its top; ``f_one`` is
    ``f(y + 1)`` when ``a = 1`` is an extra candidate, else ``None``."""
    offsets, a_cand = _lattice_increments(grid.step)
    f_vec = spec.forms.f
    y = grid.points()
    top = grid.y_max + grid.step * np.arange(1, offsets[-1] + 1)
    f_ext = np.concatenate((f_vec(y), f_vec(top)))
    f_one = f_vec(y + 1.0) if len(a_cand) > len(offsets) else None
    return offsets, a_cand, f_ext, f_one


_U = 2.0 ** -53  # the unit round-off of float64
_TINY = np.finfo(float).tiny
_CHUNK = 4096  # nodes per evaluated block of rows, to stay in cache


def _window_max(x: np.ndarray, width: int) -> np.ndarray:
    """``max(x[i:i + width])`` at every ``i`` where the window fits,
    from maxima over doubling spans."""
    m, span = x, 1
    while 2 * span <= width:
        m = np.maximum(m[:-span], m[span:])  # max(x[i:i + 2 * span])
        span *= 2
    n = len(x) - width + 1
    return np.maximum(m[:n], m[width - span:width - span + n])


def _runs(skip: np.ndarray) -> list[tuple[int, int]]:
    """The ``(lo, hi)`` node ranges that cover the false entries of
    ``skip``: its runs, joined across gaps shorter than 256 nodes,
    which cost less to evaluate than a call of their own."""
    edges = (skip[1:] != skip[:-1]).nonzero()[0] + 1
    cuts = [0, *edges.tolist(), len(skip)]
    runs: list[tuple[int, int]] = []
    off = 1 if skip[0] else 0  # the first run starts at cuts[off]
    for lo, hi in zip(cuts[off::2], cuts[off + 1::2]):
        if runs and lo - runs[-1][1] < 256:
            lo = runs.pop()[0]
        runs.append((lo, hi))
    return runs


def _objectives(lattice: tuple, V_prev: np.ndarray, top: np.ndarray,
                top_is_max: bool = False):
    """Yield ``(a, lo, obj)``: the backup objectives ``obj[i, j]`` of the
    increments ``a[i]`` at the nodes ``lo + j`` of an ``x = 0`` layer's
    first ``len(top)`` nodes, from slices of ``f_ext`` and of ``V_prev``
    padded with its last value (the top-edge clamp).

    ``top`` holds, at each node, a value that some increment reaches
    (``-inf`` will do).  The scan raises it to every objective it
    evaluates: first every block endpoint and ``a = 1``, then, in
    ascending order, each increment once at a node, except those that
    the block rule of ``value_iteration`` shows to lie strictly below
    ``top``.  So ``top`` ends as the layer's maximum.  With
    ``top_is_max`` it already is that (``extremal_policy``): the scan
    leaves it alone and makes only the ascending pass.
    """
    offsets, a_cand, f_ext, f_one = lattice
    count, cells = len(top), int(offsets[-1])
    # With a known maximum a node scans about one block, the one that
    # holds its first maximizer, so shorter blocks pay; otherwise the
    # block ends and bounds cost more than the interiors, and longer
    # blocks pay.
    width = max(2, round(math.sqrt(cells if top_is_max else 2 * cells)))
    ends = [*range(0, cells, width), cells]
    reads = count + cells
    F = f_ext[:reads]
    W = np.concatenate((V_prev, np.full(cells, V_prev[-1])))[:reads]
    rest = 1.0 - a_cand
    pair, cont = np.empty((2, count)), np.empty(count)

    def at_end(i):
        """The objective of block end ``i``, into ``pair[i % 2]``."""
        k, out = ends[i], pair[i % 2]
        np.multiply(F[k:k + count], a_cand[k], out=out)
        np.multiply(W[k:k + count], rest[k], out=cont)
        return np.add(out, cont, out=out)[None]

    if not top_is_max:
        for i, k in enumerate(ends):
            obj = at_end(i)
            np.maximum(top, obj[0], out=top)
            yield a_cand[k:k + 1], 0, obj
        if f_one is not None:
            np.maximum(top, f_one[:count], out=top)
    if cells > 1:  # else no block has an interior
        # What the bound adds to a block's higher end beside the
        # parabola term, by read offset i = node + the block's first
        # offset: tau w^2 / 8, from the most negative second difference
        # of F or W among the block's interior reads, and the round-off
        # margin, from a bound on every |value| that the backup of a
        # node at or below i touches, plus the smallest normal float for
        # the absolute round-off among subnormals.  Values near the float
        # range may overflow here: inf only widens the bound.
        with np.errstate(over="ignore"):
            dF, dW = F[1:] - F[:-1], W[1:] - W[:-1]
            neg = np.concatenate((-np.minimum(np.minimum(
                dF[1:] - dF[:-1], dW[1:] - dW[:-1]), 0.0),
                np.zeros(width - 1)))
            size = np.maximum.accumulate(np.maximum(np.abs(F), np.abs(W)))
            size = size[cells:]
            if f_one is not None:
                size = np.maximum(
                    size, np.maximum.accumulate(np.abs(f_one[:count])))
            size = np.concatenate((size, np.full(cells - 1, size[-1])))
            a_ends = a_cand[ends]
            drift = float(np.abs(a_cand[:cells + 1]
                                 - np.interp(offsets, ends, a_ends)).max())
            slack = (_window_max(neg, width - 1)
                     * (width**2 / 8 * (1 + 32 * _U))
                     + size * (2 * drift + (128 + 4 * width**2) * _U)
                     + _TINY)
            # The parabola's c = da (dW - dF) over a block, with da the
            # largest step between block ends, is the change of lift.
            lift = (W - F) * ((a_ends[1:] - a_ends[:-1]).max()
                              * (1 + 4 * _U))
        curve, room = np.empty(count), np.empty(count)
        skip = np.empty(count, dtype=bool)
        rows = np.empty((2, (width - 1) * _CHUNK))
        # Row k: the reads of offset k.
        F_rows, W_rows = (np.lib.stride_tricks.as_strided(
            x, (cells + 1, count), x.strides * 2, writeable=False)
            for x in (F, W))
    e1 = at_end(0)[0]
    for b, (k0, k1) in enumerate(zip(ends, ends[1:])):
        yield a_cand[k0:k0 + 1], 0, e1[None]
        e0, e1 = e1, at_end(b + 1)[0]
        if k1 - k0 < 2:
            continue
        # Skip where max(0, c - |e1 - e0|) / 4 < top - max(e0, e1) -
        # slack; a NaN from an overflow skips nothing.
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(lift[k1:k1 + count], lift[k0:k0 + count], out=curve)
            np.subtract(e1, e0, out=room)
            np.subtract(curve, np.abs(room, out=room), out=curve)
            np.maximum(curve, 0.0, out=curve)
            np.multiply(curve, 0.25, out=curve)
            np.maximum(e0, e1, out=room)
            np.add(room, slack[k0:k0 + count], out=room)
            np.subtract(top, room, out=room)
            np.less(curve, room, out=skip)
        for lo, hi in _runs(skip):
            for start in range(lo, hi, _CHUNK):
                nodes = slice(start, min(hi, start + _CHUNK))
                shape = (k1 - k0 - 1, nodes.stop - start)
                obj = np.multiply(F_rows[k0 + 1:k1, nodes],
                                  a_cand[k0 + 1:k1, None],
                                  out=rows[0, :math.prod(shape)]
                                  .reshape(shape))
                np.add(obj, np.multiply(W_rows[k0 + 1:k1, nodes],
                                        rest[k0 + 1:k1, None],
                                        out=rows[1, :obj.size]
                                        .reshape(shape)), out=obj)
                if not top_is_max:
                    np.maximum(top[nodes], obj.max(axis=0), out=top[nodes])
                yield a_cand[k0 + 1:k1], start, obj
    yield a_cand[cells:cells + 1], 0, e1[None]
    if f_one is not None:
        # a = 1 reaches the ceiling for sure: no continuation term.
        yield a_cand[-1:], 0, f_one[None, :count]


def _trusted_counts(grid: GridConfig, horizon: int,
                    reach: int) -> list[int]:
    """How many leading nodes each layer backs up when only the
    trusted triangle is wanted.

    Layer ``n`` covers the nodes ``y <= y_max - n``, one more for the
    right end of an interpolated read at ``y_max - n``, and every node
    that the layer above reads ``reach`` cells further up.  Layer 0 is
    ``f`` on the whole grid.
    """
    counts = [grid.n_points] * (horizon + 1)
    read = 0  # the nodes of layer n that layer n + 1 reads
    for n in range(horizon, 0, -1):
        own = math.floor((grid.y_max - n) / grid.step) + 2
        counts[n] = min(grid.n_points, max(own, read))
        read = counts[n] + reach
    return counts


# ----------------------------------------------------------------------
# tables


@dataclass
class ValueTable:
    """Stacked ``x = 0`` value layers ``V[n]`` on the nodes of ``grid``;
    the maximizing increments come from ``extremal_policy``.

    Layer ``n`` is accurate for ``y <= y_max - n`` only: reads past the
    top of the grid clamp to the last node.  A table built with
    ``trusted_only`` computed no more than that (plus the nodes its own
    reads need), a leading run of each layer, and holds NaN in ``V``
    everywhere else.
    """

    spec: FunctionSpec
    grid: GridConfig
    V: np.ndarray

    @property
    def horizon(self) -> int:
        return self.V.shape[0] - 1

    def value_at_zero(self, n: int) -> float:
        return float(self.V[n, 0])


def value_iteration(spec: FunctionSpec, horizon: int,
                    grid: GridConfig,
                    solver: SolverConfig | None = None, *,
                    trusted_only: bool = False) -> ValueTable:
    """Backward induction from ``V_0 = f`` up to the given horizon.

    Each layer is the maximum over the increment lattice at every node,
    so the table makes no ``f`` calls past its setup.  ``solver`` is
    accepted and unread.  Only values are computed; ``extremal_policy``
    finds the maximizers.

    The block rule, derived here and not in the paper, lets the scan
    skip most of the lattice.  Cut the offsets ``0 .. K`` into blocks of
    ``w = max(2, round(sqrt(2 K)))``, or ``round(sqrt K)`` for
    ``extremal_policy`` (the last may be shorter).  At a node, let
    ``F_t`` and ``W_t`` be the reads of ``f`` and of the padded
    ``V_{n-1}`` at the block's offsets ``k_0 + t``, ``t = 0 .. w``, and
    ``Q_0``, ``Q_1`` the objectives at its two ends.

    - A sequence whose second differences are all at least ``-tau`` lies
      at most ``tau t (w - t) / 2 <= tau w^2 / 8`` above its chord; take
      ``tau`` as the most negative second difference of ``F`` or ``W``
      among the block's interior reads, or 0.
    - With the increments on the straight line between the block's
      ends, the blend of the two chords is the chord from ``Q_0`` to
      ``Q_1`` plus ``c s (1 - s)``, ``s = t / w``, where
      ``c = da (dW - dF)`` comes from the block's end differences of
      ``a``, ``W`` and ``F``.  Its peak on ``[0, 1]`` tops
      ``max(Q_0, Q_1)`` by ``max(0, c - |Q_1 - Q_0|)^2 / (4 c)``, which
      is at most ``max(0, c - |Q_1 - Q_0|) / 4``.
    - So no interior objective exceeds ``max(Q_0, Q_1)
      + max(0, c - |Q_1 - Q_0|) / 4 + tau w^2 / 8 + margin``, and the
      scan evaluates the interior only where that reaches the best
      objective already computed at the node: the best block end or
      ``a = 1`` at first, then whatever the ascending scan has found.

    ``tau`` is 0, up to round-off, where both reads are convex, and it
    is large where a block reads across the top-edge clamp, whose
    constant padding bends ``V_pad`` down: such nodes are simply scanned.
    The margin covers float arithmetic: how far the float increments
    stray from the straight line (measured per lattice), ``1 - a``,
    the blend's two products and sum, and the float forms of the second
    differences, the chord ends and the bound itself.  Each is a few
    unit round-offs ``u`` of a bound on every ``|F|``, ``|W|``, objective
    and ``top`` the node touches, ``(128 + 4 w^2) u`` of it in all, which
    is generous.  Values near the float range may overflow inside the
    bound, which only widens it.  So a skipped objective lies strictly
    below a computed one, and neither the maximum nor the first
    increment that attains it can change.  For the README-scale pow:m=2
    table (H = 30, step 1/512) the scan evaluates 18% of the
    ``30 * 15361 * 513`` lattice objectives, the first pass over the
    block ends included.

    With ``trusted_only``, layer ``n`` backs up only the nodes
    ``y <= y_max - n`` and the few above them that later reads need;
    those nodes equal the full table's bit for bit, and every other
    node holds NaN.  That is all ``V[n, 0]`` and the policy read from
    the origin use, and ``full_value`` and ``verify_lemma1`` refuse a
    table that holds such a node.

    Raises ``ValueError`` when ``f`` is not finite on ``[0, y_max + 1]``.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if grid.y_max < horizon:
        raise ValueError(
            f"y_max = {grid.y_max} does not cover horizon {horizon}")
    # Backups read f on [0, y_max + 1], where the increasing f peaks at
    # the top; one overflow there spreads inf and NaN through the table.
    with np.errstate(over="ignore"):
        if not math.isfinite(spec.value(grid.y_max + 1.0)):
            raise ValueError(f"{spec.spec_string()} overflows float64 "
                             f"on [0, y_max + 1] = [0, {grid.y_max + 1.0}]")

    n_pts = grid.n_points
    lattice = _lattice(spec, grid)
    counts = (_trusted_counts(grid, horizon, lattice[0][-1]) if trusted_only
              else [n_pts] * (horizon + 1))
    V = np.full((horizon + 1, n_pts), np.nan)
    V[0] = lattice[2][:n_pts]
    for n in range(1, horizon + 1):
        top = V[n, :counts[n]]
        top.fill(-np.inf)
        for _ in _objectives(lattice, V[n - 1], top):
            pass  # the scan leaves each node's maximum in top
    return ValueTable(spec, grid, V)


# ----------------------------------------------------------------------
# general-x values


def _require_full(table: ValueTable) -> None:
    # Uncomputed nodes are NaN and end each layer that has any.
    if np.isnan(table.V[:, -1]).any():
        raise ValueError("the table holds only its trusted triangle; "
                         "general-x values need every node")


def _full_values(table: ValueTable, n: int, x: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """``F_n`` at the states ``(x[i], y[i])``: the backup objective at
    every ``x = 0`` increment capped at ``1 - x[i]``, one row per
    increment, and its maximum over the rows.

    At the ceiling ``x = 1`` every capped increment is 0 and the reach
    ``x + a`` is 1, so each row is ``1 * f(y) + 0 * V(y) = f(y)``
    exactly; a full table holds no NaN to spoil the zero term.
    """
    f_vec = table.spec.forms.f
    if n == 0:
        return f_vec(y)
    a = np.minimum.outer(_lattice_increments(table.grid.step)[1], 1.0 - x)
    q, reach = y + a, x + a
    obj = (reach * f_vec(q)
           + (1.0 - reach) * _interp(table.V[n - 1], table.grid.step, q))
    return obj.max(axis=0)


def full_value(table: ValueTable, n: int, x: float, y: float) -> float:
    """``F_n(x, y)``: the optimal value from a general state,
    reconstructed from the stored ``x = 0`` layers.

    It scans the same increments as the stored layers, capped at
    ``1 - x``, so at ``x = 0`` grid points of a dyadic grid it equals
    the stored layer exactly; ``n = 0`` gives ``f(y)``, and so does the
    backup at ``x = 1``, bit for bit.
    """
    _require_full(table)
    if not 0 <= n <= table.horizon:
        raise ValueError(f"n = {n} outside table horizon {table.horizon}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x = {x} outside [0, 1]")
    if not 0.0 <= y <= table.grid.y_max:
        raise ValueError(f"y = {y} outside the grid [0, {table.grid.y_max}]")
    return float(_full_values(table, n, np.array([float(x)]),
                              np.array([float(y)]))[0])


@dataclass
class ExtremalPolicy:
    """Maximizing increments ``A[n]`` on the grid, as a function of
    (steps remaining, y)."""

    A: np.ndarray
    grid: GridConfig

    @property
    def horizon(self) -> int:
        return self.A.shape[0] - 1

    def action(self, n: int, y: float) -> float:
        if not 1 <= n <= self.horizon:
            raise ValueError(f"n = {n} outside [1, {self.horizon}]")
        if not 0.0 <= y <= self.grid.y_max:
            raise ValueError(f"y = {y} outside the grid")
        a = float(_interp(self.A[n], self.grid.step, y))
        if math.isnan(a):
            raise ValueError(f"no action was computed at n = {n}, y = {y}")
        return min(max(a, 0.0), 1.0)


def extremal_policy(table: ValueTable) -> ExtremalPolicy:
    """Interpolated lookup of the table's maximizing increments.

    Each computed node of layer ``n`` takes the first increment, in
    ascending order, whose objective (the one ``value_iteration`` took
    the max of, bit for bit) equals ``V[n]`` there, so ties go to the
    smallest.  The scan is ``value_iteration``'s, with ``V[n]`` as the
    value to reach: an increment that the block rule skips lies strictly
    below ``V[n]``, so it cannot be the first hit.  The scan stops once
    every node has its increment.  ``A[0]`` is all zeros; nodes the
    table did not compute, a trailing run of NaN in ``V``, stay NaN in
    ``A``.
    """
    V = table.V
    A = np.full(V.shape, np.nan)
    A[0] = 0.0
    lattice = _lattice(table.spec, table.grid)
    for n in range(1, table.horizon + 1):
        count = np.count_nonzero(~np.isnan(V[n]))
        act, best = A[n, :count], V[n, :count]
        left = np.ones(count, dtype=bool)
        hits = np.empty_like(left)
        for a, lo, obj in _objectives(lattice, V[n - 1], best, True):
            nodes = slice(lo, lo + obj.shape[1])
            for a_i, row in zip(a.tolist(), obj):
                hit = np.equal(row, best[nodes], out=hits[:len(row)])
                if hit.any():  # at a few increments per node only
                    hit &= left[nodes]
                    act[nodes][hit] = a_i
                    left[nodes] ^= hit
            if not left.any():
                break
    return ExtremalPolicy(A, table.grid)


# ----------------------------------------------------------------------
# structure checks

_MONOTONE_TOL = 1e-9
_CONVEX_TOL = 1e-6
# The sampled states of the x checks: equispaced x, so the convexity
# test is a plain second difference.
_LEMMA_Y = np.array([0.0, 0.35, 0.8, 1.6, 2.5])
_LEMMA_X = np.linspace(0.0, 1.0, 9)


@dataclass(frozen=True)
class Lemma1Report:
    """Violation counts for the structural properties of the value
    function, each with its number of checks and its worst difference:
    nondecreasing in ``y``, nonincreasing in ``x``, and convex in
    ``x``."""

    y_monotone_checks: int
    y_monotone_violations: int
    worst_y_monotone: float
    x_monotone_checks: int
    x_monotone_violations: int
    worst_x_monotone: float
    x_convex_checks: int
    x_convex_violations: int
    worst_x_convex: float

    @property
    def total_violations(self) -> int:
        return (self.y_monotone_violations + self.x_monotone_violations
                + self.x_convex_violations)


def _tally(diffs: np.ndarray, tol: float) -> tuple[int, int, float]:
    """One check's ``(checks, violations, worst)``: how many differences
    there are, how many fall below ``-tol``, and the least of them and
    0."""
    return (diffs.size, int(np.sum(diffs < -tol)),
            float(np.min(diffs, initial=0.0)))


def verify_lemma1(table: ValueTable) -> Lemma1Report:
    """Sample the structural properties of the computed values.

    ``y``-monotonicity is checked on the whole grid for every layer;
    the ``x`` checks run at ``x = 0, 1/8, .., 1`` and
    ``y = 0, 0.35, 0.8, 1.6, 2.5``, restricted to the region the grid
    actually resolves (``y + 1 <= y_max - n + 1``).  A difference
    counts as a violation below ``-_MONOTONE_TOL`` (1e-9) for the
    monotonicity checks and below ``-_CONVEX_TOL`` (1e-6) for convexity.
    Raises ``ValueError`` on a table with uncomputed nodes.
    """
    _require_full(table)
    # One row of x samples per resolved (n, y), each layer's rows backed
    # up in one call.
    rows = [np.empty((0, len(_LEMMA_X)))]
    for n in range(1, table.horizon + 1):
        ys = _LEMMA_Y[_LEMMA_Y <= table.grid.y_max - n - 1.0]
        x_all = np.tile(_LEMMA_X, len(ys))
        y_all = np.repeat(ys, len(_LEMMA_X))
        rows.append(_full_values(table, n, x_all, y_all).reshape(
            -1, len(_LEMMA_X)))
    vals = np.concatenate(rows)
    return Lemma1Report(
        *_tally(np.diff(table.V, axis=1), _MONOTONE_TOL),
        *_tally(vals[:, :-1] - vals[:, 1:], _MONOTONE_TOL),
        *_tally(vals[:, :-2] + vals[:, 2:] - 2.0 * vals[:, 1:-1],
                _CONVEX_TOL))


# ----------------------------------------------------------------------
# two-route comparison


@dataclass(frozen=True)
class BoundComparison:
    """Exact growth values against the scalar recursion, per step; the
    largest gap and the budget verdict are read off the rows."""

    rows: tuple[tuple[int, float, float, float], ...]  # (n, c_n, b_n, gap)
    budget: float
    enforced: bool

    @property
    def max_gap(self) -> float:
        return max(g for _, _, _, g in self.rows)

    @property
    def max_abs_gap(self) -> float:
        return max(abs(g) for _, _, _, g in self.rows)

    @property
    def within_budget(self) -> bool:
        return self.max_gap <= self.budget


def compare_bounds(table: ValueTable) -> BoundComparison:
    """Tabulate the table's ``c_n`` against ``b_n`` from the recursion
    for the table's spec and horizon.

    ``c_n <= b_n + budget`` must hold for shift-class functions; the
    comparison is still tabulated, but not enforced, outside that class.
    """
    b_seq, _ = recursion_sequence(table.spec, table.horizon)
    rows = tuple((n, c_n, b_n, c_n - b_n) for n, (c_n, b_n)
                 in enumerate(zip(table.V[:, 0].tolist(), b_seq)))
    return BoundComparison(rows, grid_error_budget(table.grid.step),
                           is_class_s_family(table.spec))
