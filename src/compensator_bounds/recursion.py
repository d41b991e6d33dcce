"""The scalar recursion whose limit bounds compensator growth.

One step of the recursion maximizes, over a first-step increment
``a in [0, 1]``, the two-point mixture

    a * f(a)  +  (1 - a) * f(a + f^{-1}(b)),

where ``b`` is the previous bound.  Starting from ``b_0 = f(0)`` this
produces a nondecreasing sequence ``b_n``; its limit, when finite,
equals the root ``B`` of ``B = f(0) + f'(f^{-1}(B))``, which
:func:`fixed_point_bound` takes in closed form from the family record;
when no root lies below 1e6 the bound is reported as unbounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .functions import (
    FunctionSpec,
    fixed_point_root,
    scalar_callable,
    step_argmax,
    vector_callable,
)
from .optimize import golden_max

__all__ = [
    "SolverConfig",
    "RecursionStatus",
    "RecursionTrace",
    "FixedPointResult",
    "mixture_objective",
    "mixture_objective_deriv",
    "optimal_step",
    "iterate",
    "recursion_sequence",
    "fixed_point_bound",
]

# Tolerance for the slope cross-check at the fixed point.
_CROSS_CHECK_TOL = 1e-6
_CROSS_CHECK_GRID = 512
# A recursion value (or fixed point) above this counts as divergence.
_DIVERGENCE_THRESHOLD = 1e6


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs of the recursion and Bellman solvers.

    ``opt_grid_points`` is the recursion's coarse scan size; the Bellman
    route takes its increments from the grid.  On both routes a golden
    refinement makes at most ``refine_iters + 1`` objective evaluations.
    Recursion steps of families with a closed-form maximizer (``exp``,
    and ``pow`` with ``m`` 2 or 3) ignore both ``opt_grid_points`` and
    ``refine_iters``.
    """

    opt_grid_points: int = 2048
    refine_iters: int = 60
    b_tolerance: float = 1e-9
    max_iterations: int = 20000

    def __post_init__(self) -> None:
        if self.opt_grid_points < 2:
            raise ValueError("opt_grid_points must be >= 2")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be >= 0")
        if not math.isfinite(self.b_tolerance):
            raise ValueError(f"b_tolerance {self.b_tolerance!r} must be "
                             f"finite")
        for name in ("b_tolerance", "max_iterations"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


DEFAULT_CONFIG = SolverConfig()


def mixture_objective(spec: FunctionSpec, a, b: float):
    """The one-step objective at increment ``a`` given previous bound
    ``b >= f(0)``; vectorized over ``a`` in ``[0, 1]``."""
    if np.any(np.asarray(a) < 0.0) or np.any(np.asarray(a) > 1.0):
        raise ValueError("increment a must lie in [0, 1]")
    offset = spec.inverse(b)
    return a * spec.value(a) + (1.0 - a) * spec.value(a + offset)


def mixture_objective_deriv(spec: FunctionSpec, a, b: float):
    """d/da of :func:`mixture_objective`; vectorized over ``a``."""
    if np.any(np.asarray(a) < 0.0) or np.any(np.asarray(a) > 1.0):
        raise ValueError("increment a must lie in [0, 1]")
    offset = spec.inverse(b)
    shifted = a + offset
    return (spec.value(a) + a * spec.deriv(a)
            - spec.value(shifted) + (1.0 - a) * spec.deriv(shifted))


def _grid_stepper(spec: FunctionSpec, cfg: SolverConfig):
    """A reusable single-step maximizer by grid scan plus golden search.

    Precomputes every grid quantity that does not depend on the incoming
    bound ``b`` (the first mixture term in particular), which matters
    when the recursion runs for hundreds of thousands of steps.  A scan
    that overflows (``inf``, or ``0 * inf = nan`` at ``a = 1``) gives the
    value ``inf``.
    """
    n = cfg.opt_grid_points
    a_grid = np.linspace(0.0, 1.0, n)
    f_vec = vector_callable(spec)
    f_scal = scalar_callable(spec)
    first_term = a_grid * f_vec(a_grid)
    weight = 1.0 - a_grid
    refine_iters = cfg.refine_iters

    def step(b: float) -> tuple[float, float]:
        offset = spec.inverse(b)
        vals = first_term + weight * f_vec(a_grid + offset)
        peak = float(np.max(vals))
        if not math.isfinite(peak):
            return math.inf, math.nan
        # Ties (exact or within float noise, as on flat objectives) go
        # to the smallest increment.
        noise = 1e-13 * max(1.0, abs(peak))
        i = int(np.argmax(vals >= peak - noise))
        best_v = float(vals[i])
        best_x = float(a_grid[i])
        if refine_iters > 0:
            ref_v, ref_x = golden_max(
                lambda a: a * f_scal(a) + (1.0 - a) * f_scal(a + offset),
                float(a_grid[max(i - 1, 0)]),
                float(a_grid[min(i + 1, n - 1)]), refine_iters - 1)
            if ref_v > best_v + noise:
                best_v, best_x = ref_v, ref_x
        if best_v < b:
            # The true supremum is >= b (the objective equals b at
            # a = 0); only inverse round-off can dip below.
            return b, 0.0
        return best_v, best_x

    return step


def _make_stepper(spec: FunctionSpec, cfg: SolverConfig):
    """A reusable single-step maximizer ``b -> (value, argmax)``.

    Families with a closed-form maximizer (``exp``, and ``pow`` with
    ``m`` 2 or 3) evaluate the objective once, at that maximizer, and
    ignore ``cfg``; the others use :func:`_grid_stepper`.  A value that
    overflows comes back as ``inf``.
    """
    argmax = step_argmax(spec)
    if argmax is None:
        return _grid_stepper(spec, cfg)
    f = scalar_callable(spec)

    def step(b: float) -> tuple[float, float]:
        offset = spec.inverse(b)
        a = argmax(b, offset)
        try:
            value = a * f(a) + (1.0 - a) * f(a + offset)
        except OverflowError:
            return math.inf, a
        if value < b:
            # As on the grid: only inverse round-off can dip below b.
            return b, 0.0
        return value, a

    return step


def optimal_step(spec: FunctionSpec, b: float,
                 cfg: SolverConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Maximize the one-step objective over ``a in [0, 1]``.

    In closed form for ``exp`` and for ``pow`` with ``m`` 2 or 3.  The
    other families use a grid scan (``cfg.opt_grid_points``) plus
    golden-section refinement; values within 1e-13 relative of the peak
    tie, toward the smallest ``a``.  Returns ``(value, argmax)`` with
    ``value >= b`` guaranteed (the objective equals ``b`` at ``a = 0``);
    ``value`` is ``inf`` when ``f`` overflows.
    """
    return _make_stepper(spec, cfg)(b)


class RecursionStatus(Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class RecursionTrace:
    """The computed recursion path.

    ``b`` holds ``b_0 .. b_n`` and ``a_star[k]`` is the maximizer that
    produced ``b[k+1]``.  ``limit`` is set when the run converged;
    ``diverged_at`` is the step index whose value first exceeded the
    divergence threshold.
    """

    spec: FunctionSpec
    b: tuple[float, ...]
    a_star: tuple[float, ...]
    status: RecursionStatus
    limit: float | None = None
    diverged_at: int | None = None

    @property
    def final(self) -> float:
        return self.b[-1]


def _step_loop(spec: FunctionSpec, cfg: SolverConfig, n_steps: int,
               status=lambda b_seq: None):
    """``b_0 = f(0)`` and up to ``n_steps`` steps, ending after the first
    step for which ``status(b_0 .. b_k)`` is not None.  Returns
    ``(b, a_star, that status or MAX_ITERATIONS)``.  Raises ValueError
    at the first step whose value is not finite."""
    stepper = _make_stepper(spec, cfg)
    b_seq = [spec.f_zero]
    a_seq: list[float] = []
    for k in range(1, n_steps + 1):
        value, a_star = stepper(b_seq[-1])
        if not math.isfinite(value):
            raise ValueError(f"recursion step {k} of {spec} overflows "
                             f"float64 (b_{k - 1} = {b_seq[-1]!r})")
        b_seq.append(value)
        a_seq.append(a_star)
        end = status(b_seq)
        if end is not None:
            return b_seq, a_seq, end
    return b_seq, a_seq, RecursionStatus.MAX_ITERATIONS


def iterate(spec: FunctionSpec,
            cfg: SolverConfig = DEFAULT_CONFIG) -> RecursionTrace:
    """Run ``b_{n+1} = optimal_step(b_n)`` from ``b_0 = f(0)``.

    Stops with ``CONVERGED`` once successive values differ by less than
    ``cfg.b_tolerance``, with ``DIVERGED`` once a value exceeds
    ``_DIVERGENCE_THRESHOLD`` (1e6), and with ``MAX_ITERATIONS`` otherwise.
    """
    def status(b_seq):
        if b_seq[-1] > _DIVERGENCE_THRESHOLD:
            return RecursionStatus.DIVERGED
        if abs(b_seq[-1] - b_seq[-2]) < cfg.b_tolerance:
            return RecursionStatus.CONVERGED
        return None

    b_seq, a_seq, end = _step_loop(spec, cfg, cfg.max_iterations, status)
    return RecursionTrace(
        spec, tuple(b_seq), tuple(a_seq), end,
        limit=b_seq[-1] if end is RecursionStatus.CONVERGED else None,
        diverged_at=len(a_seq) if end is RecursionStatus.DIVERGED else None)


def recursion_sequence(spec: FunctionSpec, n_steps: int,
                       cfg: SolverConfig = DEFAULT_CONFIG,
                       ) -> tuple[list[float], list[float]]:
    """Exactly ``n_steps`` recursion values with no stopping rule.

    Returns ``(b_0 .. b_n, a_1 .. a_n)``; used when a fixed horizon must
    line up with the Bellman table.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    return _step_loop(spec, cfg, n_steps)[:2]


@dataclass(frozen=True)
class FixedPointResult:
    """Closed-form root of ``b = f(0) + f'(f^{-1}(b))``, or unbounded.

    ``cross_check_max`` is the largest one-step slope over an ``a``-grid
    at the root; a value above 1e-6 clears ``cross_check_ok`` and means
    the root does *not* dominate the recursion (expected exactly for
    functions outside the shift class).
    """

    value: float
    cross_check_max: float | None = None
    cross_check_ok: bool | None = None

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.value)


def fixed_point_bound(spec: FunctionSpec) -> FixedPointResult:
    """The root of ``b = f(0) + f'(f^{-1}(b))``, from the family record.

    A root above ``_DIVERGENCE_THRESHOLD`` (1e6), or none, is reported
    as unbounded, as :func:`iterate` reports a value past it as
    divergence.  At a finite root the one-step slope is cross-checked on
    a 512-point grid; at ``a = 0`` that slope is the equation's residual.
    """
    root = fixed_point_root(spec)
    if root > _DIVERGENCE_THRESHOLD:
        return FixedPointResult(math.inf)
    grid = np.linspace(0.0, 1.0, _CROSS_CHECK_GRID)
    slope_max = float(np.max(mixture_objective_deriv(spec, grid, root)))
    return FixedPointResult(root, slope_max, slope_max <= _CROSS_CHECK_TOL)
