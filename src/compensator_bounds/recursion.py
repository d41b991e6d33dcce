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

from .functions import FunctionSpec

__all__ = [
    "SolverConfig",
    "RecursionStatus",
    "RecursionTrace",
    "FixedPointResult",
    "mixture_objective_deriv",
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
    """Numerical knobs of the recursion.

    No solver reads ``opt_grid_points`` or ``refine_iters``: recursion
    steps take their maximizers from the family records, and Bellman
    tables take their increments from the grid.  The two fields stay
    so that positional configurations keep their meaning.
    """

    opt_grid_points: int = 2048
    refine_iters: int = 60
    b_tolerance: float = 1e-9
    max_iterations: int = 20000

    def __post_init__(self) -> None:
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be >= 0")
        if not math.isfinite(self.b_tolerance):
            raise ValueError(f"b_tolerance {self.b_tolerance!r} must be "
                             f"finite")
        for name in ("b_tolerance", "max_iterations"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


DEFAULT_CONFIG = SolverConfig()


def mixture_objective_deriv(spec: FunctionSpec, a, b: float):
    """d/da of the one-step objective
    ``a f(a) + (1 - a) f(a + f^{-1}(b))`` at increment ``a`` given the
    previous bound ``b >= f(0)``; vectorized over ``a`` in ``[0, 1]``."""
    # Negated so that NaN, for which every comparison is False, fails too.
    if not np.all((np.asarray(a) >= 0.0) & (np.asarray(a) <= 1.0)):
        raise ValueError("increment a must lie in [0, 1]")
    offset = spec.inverse(b)
    shifted = a + offset
    return (spec.value(a) + a * spec.deriv(a)
            - spec.value(shifted) + (1.0 - a) * spec.deriv(shifted))


def _make_stepper(spec: FunctionSpec):
    """A reusable single-step maximizer ``b -> (value, argmax)``: the
    family record's maximizer, where the objective is evaluated once.
    A maximizer or value that overflows gives the value ``inf``."""
    argmax, f = spec.forms.argmax, spec.forms.f_scalar
    inverse = spec.forms.inverse

    def step(b: float) -> tuple[float, float]:
        # In the domain: b_0 = f(0) and no step returns less than its b.
        offset = float(inverse(b))
        try:
            a = argmax(b, offset)
            value = a * f(a) + (1.0 - a) * f(a + offset)
        except OverflowError:
            return math.inf, math.nan
        if value < b:
            # The true supremum is >= b (the objective equals b at
            # a = 0); only inverse round-off can dip below.
            return b, 0.0
        return value, a

    return step


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

    b: tuple[float, ...]
    a_star: tuple[float, ...]
    status: RecursionStatus
    limit: float | None = None
    diverged_at: int | None = None

    @property
    def final(self) -> float:
        return self.b[-1]


def _step_loop(spec: FunctionSpec, n_steps: int,
               status=lambda b_seq: None):
    """``b_0 = f(0)`` and up to ``n_steps`` steps, ending after the first
    step for which ``status(b_0 .. b_k)`` is not None.  Returns
    ``(b, a_star, that status or MAX_ITERATIONS)``.  Raises ValueError
    at the first step whose value is not finite."""
    stepper = _make_stepper(spec)
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
    """Run the recursion from ``b_0 = f(0)``: ``b_{n+1}`` is the maximum
    over ``a`` of the one-step objective at ``b = b_n``, and ties go to
    the smallest ``a``.

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

    b_seq, a_seq, end = _step_loop(spec, cfg.max_iterations, status)
    return RecursionTrace(
        tuple(b_seq), tuple(a_seq), end,
        limit=b_seq[-1] if end is RecursionStatus.CONVERGED else None,
        diverged_at=len(a_seq) if end is RecursionStatus.DIVERGED else None)


def recursion_sequence(spec: FunctionSpec, n_steps: int,
                       cfg: SolverConfig = DEFAULT_CONFIG,
                       ) -> tuple[list[float], list[float]]:
    """Exactly ``n_steps`` recursion values with no stopping rule.

    Returns ``(b_0 .. b_n, a_1 .. a_n)``; used when a fixed horizon must
    line up with the Bellman table.  No step reads ``cfg``.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    return _step_loop(spec, n_steps)[:2]


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
    root = spec.forms.root
    if root > _DIVERGENCE_THRESHOLD:
        return FixedPointResult(math.inf)
    grid = np.linspace(0.0, 1.0, _CROSS_CHECK_GRID)
    slope_max = float(np.max(mixture_objective_deriv(spec, grid, root)))
    return FixedPointResult(root, slope_max, slope_max <= _CROSS_CHECK_TOL)
