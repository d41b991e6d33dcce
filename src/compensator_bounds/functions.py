"""Test-function families for the compensator growth bounds.

All solvers in this package are parameterized by an increasing function
``f`` on ``[0, inf)``.  Four families are built in:

* ``exp:lambda=L``  -- ``f(x) = exp(L * x)`` with ``L > 0``;
* ``pow:m=M``       -- ``f(x) = x ** M`` with ``M >= 1``;
* ``quad``          -- ``f(x) = x + x**2 / 2`` (convex, concave slope);
* ``remark2``       -- ``f(x) = x`` on ``[0, 1]`` and ``(1 + x**2) / 2``
  beyond; a continuously differentiable splice whose curvature-to-slope
  ratio *jumps up* at ``x = 1``, making it the stock counterexample to
  the shift inequality that everything else here relies on.

Each family is one record in ``_FAMILIES``: its parameter key and
validity rule, ``f(0)``, whether it belongs to the shift class, and the
closed forms of ``f`` (array and scalar), ``f'``, ``f''``, ``f^{-1}``,
the root ``B`` of the fixed-point equation ``B = f(0) + f'(f^{-1}(B))``
and, where the math gives one, the maximizer of the recursion's one-step
objective.  A :class:`FunctionSpec` bundles a family with its parameter,
evaluates those forms, and round-trips through the little
``family:key=value`` string syntax used on the command line.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Family",
    "FunctionSpec",
    "ClassSResult",
    "parse_function_spec",
    "scalar_callable",
    "vector_callable",
    "step_argmax",
    "fixed_point_root",
    "second_derivative",
    "class_s_condition",
    "is_class_s_family",
]

# Relative slack when clamping an inverse target that float rounding has
# pushed just below f(0).
_INVERSE_CLAMP = 1e-9


class Family(enum.Enum):
    """The built-in function families."""

    EXPONENTIAL = "exp"
    POWER = "pow"
    QUAD = "quad"
    REMARK2 = "remark2"


class _Forms(NamedTuple):
    """Closed forms of one family member, its parameter bound in.

    ``f`` and ``deriv`` take numpy arrays; ``f_scalar``, ``second`` and
    ``inverse`` take plain floats.
    """

    f: Callable
    f_scalar: Callable
    deriv: Callable
    second: Callable
    inverse: Callable


def _exp_forms(lam: float) -> _Forms:
    return _Forms(
        f=lambda x: np.exp(lam * x),
        f_scalar=lambda x: math.exp(lam * x),
        deriv=lambda x: lam * np.exp(lam * x),
        second=lambda x: lam * lam * np.exp(lam * x),
        # np.log, not math.log: they differ in the last bit for some y,
        # which shows in the recursion output.
        inverse=lambda y: np.log(y) / lam,
    )


def _pow_forms(m: float) -> _Forms:
    def second(x):
        # x ** (m - 2) would divide by zero at 0 for m < 2: m = 1 is
        # linear, and for 1 < m < 2 the curvature's limit at 0 is +inf.
        if m == 1.0:
            return 0.0
        if x == 0.0 and m < 2.0:
            return math.inf
        return m * (m - 1.0) * x ** (m - 2.0)

    return _Forms(
        f=lambda x: x ** m,
        f_scalar=lambda x: x ** m,
        deriv=lambda x: m * x ** (m - 1.0),
        second=second,
        inverse=lambda y: y ** (1.0 / m),
    )


def _quad_forms(_: None) -> _Forms:
    return _Forms(
        f=lambda x: x + 0.5 * x * x,
        f_scalar=lambda x: x + 0.5 * x * x,
        deriv=lambda x: 1.0 + x,
        second=lambda x: 1.0,
        # -1 + sqrt(1 + 2y), rewritten to avoid cancellation at small y.
        inverse=lambda y: 2.0 * y / (1.0 + math.sqrt(1.0 + 2.0 * y)),
    )


def _remark2_forms(_: None) -> _Forms:
    # At the splice x = 1 the left one-sided derivatives are used.
    return _Forms(
        f=lambda x: np.where(x <= 1.0, x, 0.5 * (1.0 + x * x)),
        f_scalar=lambda x: x if x <= 1.0 else 0.5 * (1.0 + x * x),
        deriv=lambda x: np.where(x <= 1.0, 1.0, x),
        second=lambda x: 0.0 if x <= 1.0 else 1.0,
        inverse=lambda y: y if y <= 1.0 else math.sqrt(2.0 * y - 1.0),
    )


# Closed-form maximizers argmax(b, o) of the recursion's one-step
# objective a f(a) + (1 - a) f(a + o), with o = f^{-1}(b), over a in
# [0, 1] with its endpoints.


def _clip_unit(a: float) -> float:
    return min(max(a, 0.0), 1.0)


def _exp_argmax(lam: float):
    def argmax(b, o):
        # The slope in a has the sign of lam (a (1 - b) + b) + 1 - b,
        # which is positive throughout at b = 1 and falls in a beyond.
        if b <= 1.0:
            return 1.0
        return _clip_unit((1.0 - (1.0 - lam) * b) / (lam * (b - 1.0)))

    return argmax


def _pow2_argmax(b, o):
    # The slope in a is o (2 - o) + a (2 - 4 o): the objective is convex
    # and increasing unless 4 o > 2.
    if 4.0 * o - 2.0 <= 0.0:
        return 1.0
    return _clip_unit(o * (2.0 - o) / (4.0 * o - 2.0))


def _pow3_argmax(b, o):
    # The slope in a is A a^2 + B a + C.  While it is >= 0 at a = 1 it is
    # >= 0 on all of [0, 1] (every coefficient is >= 0 when A >= 0, and
    # otherwise the slope is concave with C >= 0), so a* = 1.  Past
    # that A < 0 and o > 0.58, where the rationalized positive root
    # below has no cancellation.
    qa, qb, qc = 3.0 - 9.0 * o, 6.0 * o * (1.0 - o), o * o * (3.0 - o)
    if qa + qb + qc >= 0.0:
        return 1.0
    return _clip_unit(2.0 * qc / (-qb + math.sqrt(qb * qb - 4.0 * qa * qc)))


_POW_ARGMAX = {2.0: _pow2_argmax, 3.0: _pow3_argmax}


def _exp_root(lam: float) -> float:
    # 1 + lam B = B.
    return 1.0 / (1.0 - lam) if lam < 1.0 else math.inf


def _pow_root(m: float) -> float:
    # m B^{(m-1)/m} = B, so B^{1/m} = m.  Float m ** m raises instead of
    # returning inf, from m = 144 on.
    try:
        return m ** m
    except OverflowError:
        return math.inf


class _Record(NamedTuple):
    """Everything the package knows about one family.

    ``key`` names the parameter (``None`` for parameter-free families),
    ``valid`` accepts a parameter value and ``rule`` says in words what
    it accepts; ``forms`` builds the closed forms for one parameter and
    ``root`` gives the closed-form fixed point ``B`` for one parameter.
    ``argmax``, where set, builds for one parameter the closed-form
    maximizer ``argmax(b, o)`` of the recursion's one-step objective, or
    ``None`` when that parameter has none.
    """

    key: str | None
    rule: str | None
    valid: Callable[[float], bool] | None
    f_zero: float
    class_s: bool
    forms: Callable[[float | None], _Forms]
    root: Callable[[float | None], float]
    argmax: Callable[[float | None], Callable | None] | None = None


_FAMILIES = {
    Family.EXPONENTIAL: _Record("lambda", "> 0", lambda p: p > 0.0,
                                1.0, True, _exp_forms, _exp_root,
                                _exp_argmax),
    Family.POWER: _Record("m", ">= 1", lambda p: p >= 1.0,
                          0.0, True, _pow_forms, _pow_root,
                          _POW_ARGMAX.get),
    # 1 + f^{-1}(B) = B, so B^2 = 1 + 2B.
    Family.QUAD: _Record(None, None, None, 0.0, True, _quad_forms,
                         lambda _: 1.0 + math.sqrt(2.0)),
    # Outside the shift class: the curvature-to-slope ratio jumps up at
    # the splice.  Its root is 1, not the recursion's limit 41/32: below
    # the splice f'(f^{-1}(B)) = 1, and past it sqrt(2B - 1) = B only at 1.
    Family.REMARK2: _Record(None, None, None, 0.0, False, _remark2_forms,
                            lambda _: 1.0),
}


def _domain_check(x) -> None:
    if np.any(np.asarray(x) < 0.0):
        raise ValueError("function argument must be >= 0")


@dataclass(frozen=True)
class FunctionSpec:
    """An increasing test function ``f`` on ``[0, inf)``.

    ``param`` is the exponential rate for ``exp``, the exponent for
    ``pow``, and ``None`` for the parameter-free families.  Instances
    are immutable and hashable; equality and hash depend on
    ``(family, param)`` only.
    """

    family: Family
    param: float | None = None
    _forms: _Forms = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rec = _FAMILIES[self.family]
        if rec.key is None:
            if self.param is not None:
                raise ValueError(
                    f"{self.family.value} takes no parameter, "
                    f"got {self.param}")
        elif self.param is not None and not math.isfinite(self.param):
            raise ValueError(f"{rec.key} must be finite, got {self.param}")
        elif self.param is None or not rec.valid(self.param):
            raise ValueError(
                f"{rec.key} must be {rec.rule}, got {self.param}")
        object.__setattr__(self, "_forms", rec.forms(self.param))

    # ------------------------------------------------------------------
    # evaluation

    def value(self, x):
        """``f(x)``; accepts scalars or numpy arrays, domain ``x >= 0``."""
        _domain_check(x)
        out = self._forms.f(np.asarray(x, dtype=float))
        return float(out) if np.ndim(x) == 0 else out

    def deriv(self, x):
        """``f'(x)``.  At the ``remark2`` splice point the left slope is
        used (the two one-sided slopes agree there anyway)."""
        _domain_check(x)
        out = self._forms.deriv(np.asarray(x, dtype=float))
        return float(out) if np.ndim(x) == 0 else out

    @property
    def f_zero(self) -> float:
        """``f(0)``: 1 for exponentials, 0 for the other families."""
        return _FAMILIES[self.family].f_zero

    def inverse(self, y: float) -> float:
        """``f^{-1}(y)`` for ``y >= f(0)``, in closed form.

        Targets a hair below ``f(0)`` from float rounding are clamped;
        anything further below raises a range error.
        """
        y = float(y)
        f0 = self.f_zero
        if y < f0:
            if y >= f0 - _INVERSE_CLAMP * max(1.0, abs(f0)):
                return 0.0
            raise ValueError(f"inverse target {y} below f(0) = {f0}")
        return float(self._forms.inverse(y))

    # ------------------------------------------------------------------
    # the mini-language

    def spec_string(self) -> str:
        """Canonical ``family:key=value`` form; round-trips via
        :func:`parse_function_spec`."""
        key = _FAMILIES[self.family].key
        if key is None:
            return self.family.value
        return f"{self.family.value}:{key}={self.param!r}"

    def __str__(self) -> str:
        return self.spec_string()


def parse_function_spec(text: str) -> FunctionSpec:
    """Parse ``exp:lambda=0.5`` / ``pow:m=2`` / ``quad`` / ``remark2``.

    Raises ``ValueError`` naming the offending token on malformed input.
    """
    head, sep, tail = text.strip().partition(":")
    try:
        family = Family(head)
    except ValueError:
        raise ValueError(f"unknown function family '{head}'") from None

    key_needed = _FAMILIES[family].key
    if key_needed is None:
        if sep:
            raise ValueError(
                f"{family.value} takes no parameter, got '{tail}'")
        return FunctionSpec(family)

    if not sep or not tail:
        raise ValueError(
            f"{family.value} requires parameter '{key_needed}=<value>'")
    key, eq, raw = tail.partition("=")
    if key != key_needed or not eq:
        raise ValueError(
            f"{family.value} requires parameter '{key_needed}=<value>', "
            f"got '{tail}'")
    try:
        param = float(raw)
    except ValueError:
        raise ValueError(
            f"could not parse number '{raw}' for '{key_needed}'") from None
    return FunctionSpec(family, param)


def scalar_callable(spec: FunctionSpec):
    """A plain-Python evaluator of ``f`` for hot scalar loops.

    Skips domain checks and array dispatch; callers are responsible for
    keeping arguments in ``[0, inf)``.
    """
    return spec._forms.f_scalar


def vector_callable(spec: FunctionSpec):
    """Array evaluator of ``f`` without domain checks, for hot loops."""
    return spec._forms.f


def step_argmax(spec: FunctionSpec):
    """The closed-form maximizer ``argmax(b, o)`` of the recursion's
    one-step objective, with ``o = f^{-1}(b)``; ``None`` for families
    without one (``quad``, ``remark2`` and ``pow`` unless ``m`` is 2 or
    3)."""
    build = _FAMILIES[spec.family].argmax
    return None if build is None else build(spec.param)


def fixed_point_root(spec: FunctionSpec) -> float:
    """The root ``B`` of ``B = f(0) + f'(f^{-1}(B))`` in closed form:
    ``1/(1 - lambda)`` for ``exp`` (``inf`` at ``lambda >= 1``), ``m^m``
    for ``pow`` (``inf`` where that overflows float64), ``1 + sqrt(2)``
    for ``quad`` and 1 for ``remark2``."""
    return _FAMILIES[spec.family].root(spec.param)


# ----------------------------------------------------------------------
# curvature and the class membership check


def second_derivative(spec: FunctionSpec, x: float) -> float:
    """``f''(x)`` in closed form.  At the ``remark2`` splice point the
    left value (0) is used, as :meth:`FunctionSpec.deriv` does."""
    x = float(x)
    _domain_check(x)
    return float(spec._forms.second(x))


class ClassSResult(NamedTuple):
    holds: bool
    violation_at: float | None


def class_s_condition(spec: FunctionSpec, grid) -> ClassSResult:
    """Check the smooth sufficient condition for the shift inequality:
    the ratio ``f''(x) / f'(x)`` must be nonincreasing along ``grid``.

    ``grid`` must be sorted ascending with at least two points, all in
    regions where ``f`` is smooth.  Returns whether the sampled ratio is
    nonincreasing (tolerance 1e-9) and, if not, the first offending grid
    point.  Points where ``f' = 0`` (power families at the origin) get a
    ``+inf`` ratio, matching the one-sided limit.
    """
    pts = [float(v) for v in np.asarray(grid, dtype=float).ravel()]
    if len(pts) < 2:
        raise ValueError("grid must contain at least two points")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValueError("grid must be strictly increasing")

    def ratio(x: float) -> float:
        slope = spec.deriv(x)
        if slope == 0.0:
            return float("inf")
        return second_derivative(spec, x) / slope

    prev = ratio(pts[0])
    for x in pts[1:]:
        cur = ratio(x)
        if cur > prev + 1e-9:
            return ClassSResult(False, x)
        prev = cur
    return ClassSResult(True, None)


def is_class_s_family(spec: FunctionSpec) -> bool:
    """Whether the family is one for which the shift inequality is known
    to hold for every parameter value (all built-ins except ``remark2``)."""
    return _FAMILIES[spec.family].class_s
