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
validity rule, whether it belongs to the shift class, and one builder
that binds a parameter into a :class:`_Forms` record: ``f``, ``f'``,
``f^{-1}``, the one-step maximizer and the fixed point ``B``.
A :class:`FunctionSpec` holds a family, its parameter and those forms,
evaluates them with domain checks, and round-trips through the little
``family:key=value`` string syntax used on the command line.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Family",
    "FunctionSpec",
    "parse_function_spec",
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

    ``f`` and ``deriv`` take numpy arrays, ``f_scalar`` and ``inverse``
    plain floats; :meth:`FunctionSpec.inverse` applies ``inverse`` to
    each element, whatever the input's shape, since a whole-array
    ``np.power`` for ``pow`` differs from the C ``pow`` of ``**`` in the
    last bit for some targets.  None checks its domain (``[0, inf)``, and
    ``[f(0), inf)`` for ``inverse``): hot loops, the recursion step
    among them, read them and keep to it, and :class:`FunctionSpec`'s
    methods are the checked evaluators.
    ``argmax(b, o)`` maximizes the recursion's one-step objective
    ``a f(a) + (1 - a) f(a + o)`` over ``[0, 1]``, with ``o = f^{-1}(b)``
    and ties to the smallest ``a``: the slope's root in closed form for
    ``exp``, ``quad`` and ``pow`` with ``m`` 2 or 3, the best candidate
    for ``remark2``, and a bisection of the slope, which can raise
    OverflowError, for the other ``pow``.  ``root`` is the root ``B`` of
    ``B = f(0) + f'(f^{-1}(B))``, ``inf`` where there is none or it
    overflows float64.
    """

    f: Callable
    f_scalar: Callable
    deriv: Callable
    inverse: Callable
    argmax: Callable
    root: float


def _clip_unit(a: float) -> float:
    return min(max(a, 0.0), 1.0)


def _exp_forms(lam: float) -> _Forms:
    def argmax(b, o):
        # The slope in a has the sign of lam (a (1 - b) + b) + 1 - b,
        # which is positive throughout at b = 1 and falls in a beyond.
        if b <= 1.0:
            return 1.0
        return _clip_unit((1.0 - (1.0 - lam) * b) / (lam * (b - 1.0)))

    return _Forms(
        f=lambda x: np.exp(lam * x),
        f_scalar=lambda x: math.exp(lam * x),
        deriv=lambda x: lam * np.exp(lam * x),
        # np.log, not math.log: they differ in the last bit for some y,
        # which shows in the recursion output.
        inverse=lambda y: np.log(y) / lam,
        argmax=argmax,
        # 1 + lam B = B.
        root=1.0 / (1.0 - lam) if lam < 1.0 else math.inf,
    )


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


def _pow_forms(m: float) -> _Forms:
    def slope(a, o):
        return ((m + 1.0) * a ** m - (a + o) ** m
                + m * (1.0 - a) * (a + o) ** (m - 1.0))

    def argmax(b, o):
        # The slope's signs along [0, 1] run +, - or + then -.  At b = 0
        # it is 0 at a = 0 for m > 1 while the objective rises, so a = 1
        # is tested first; past that a zero slope at 0 means a* = 0.
        s0 = slope(0.0, o)
        if s0 < 0.0:
            return 0.0
        if slope(1.0, o) > 0.0:
            return 1.0
        if s0 == 0.0:
            return 0.0
        lo, hi = 0.0, 1.0
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            lo, hi = (mid, hi) if slope(mid, o) > 0.0 else (lo, mid)
        return lo

    # m B^{(m-1)/m} = B, so B^{1/m} = m.  Float m ** m raises instead of
    # returning inf, from m = 144 on.
    try:
        root = m ** m
    except OverflowError:
        root = math.inf
    return _Forms(
        f=lambda x: x ** m,
        f_scalar=lambda x: x ** m,
        deriv=lambda x: m * x ** (m - 1.0),
        inverse=lambda y: y ** (1.0 / m),
        argmax={2.0: _pow2_argmax, 3.0: _pow3_argmax}.get(m, argmax),
        root=root,
    )


def _quad_argmax(b, o):
    # The slope in a is 1 - o^2/2 + a (1 - 2o): positive while o <= 1/2.
    if o <= 0.5:
        return 1.0
    return _clip_unit((1.0 - 0.5 * o * o) / (2.0 * o - 1.0))


def _quad_forms(_: None) -> _Forms:
    return _Forms(
        f=lambda x: x + 0.5 * x * x,
        f_scalar=lambda x: x + 0.5 * x * x,
        deriv=lambda x: 1.0 + x,
        # -1 + sqrt(1 + 2y), rewritten to avoid cancellation at small y.
        inverse=lambda y: 2.0 * y / (1.0 + math.sqrt(1.0 + 2.0 * y)),
        argmax=_quad_argmax,
        # 1 + f^{-1}(B) = B, so B^2 = 1 + 2B.
        root=1.0 + math.sqrt(2.0),
    )


def _remark2_scalar(x):
    return x if x <= 1.0 else 0.5 * (1.0 + x * x)


def _remark2_argmax(b, o):
    # Up to the splice (a <= 1 - o) the objective is a (1 - o) + o, best
    # at an end of that piece.  Beyond it the slope is
    # -3a^2/2 + (3 - 2o) a - (1 - o)^2/2, whose roots are the other
    # candidates.  max keeps the first, smallest a of tied values.
    cands = [0.0, _clip_unit(1.0 - o), 1.0]
    p, c = 3.0 - 2.0 * o, -0.5 * (1.0 - o) ** 2
    disc = p * p + 6.0 * c
    if disc >= 0.0:
        q = -0.5 * (p + math.copysign(math.sqrt(disc), p))
        cands += [_clip_unit(q / -1.5), _clip_unit(c / q)]
    return max(sorted(cands), key=lambda a: (
        a * _remark2_scalar(a) + (1.0 - a) * _remark2_scalar(a + o)))


def _remark2_forms(_: None) -> _Forms:
    # At the splice x = 1 the left one-sided derivatives are used.
    return _Forms(
        f=lambda x: np.where(x <= 1.0, x, 0.5 * (1.0 + x * x)),
        f_scalar=_remark2_scalar,
        deriv=lambda x: np.where(x <= 1.0, 1.0, x),
        inverse=lambda y: y if y <= 1.0 else math.sqrt(2.0 * y - 1.0),
        argmax=_remark2_argmax,
        # Not the recursion's limit 41/32: below the splice
        # f'(f^{-1}(B)) = 1, and past it sqrt(2B - 1) = B only at 1.
        root=1.0,
    )


class _Record(NamedTuple):
    """Everything the package knows about one family.

    ``key`` names the parameter (``None`` for parameter-free families),
    ``valid`` accepts a parameter value and ``rule`` says in words what
    it accepts; ``forms`` builds the closed forms for one parameter.
    """

    key: str | None
    rule: str | None
    valid: Callable[[float], bool] | None
    class_s: bool
    forms: Callable[[float | None], _Forms]


_FAMILIES = {
    Family.EXPONENTIAL: _Record("lambda", "> 0", lambda p: p > 0.0,
                                True, _exp_forms),
    Family.POWER: _Record("m", ">= 1", lambda p: p >= 1.0, True, _pow_forms),
    Family.QUAD: _Record(None, None, None, True, _quad_forms),
    # Outside the shift class: f''/f' jumps up at the splice.
    Family.REMARK2: _Record(None, None, None, False, _remark2_forms),
}


def _checked(form: Callable, x):
    """``form`` at ``x >= 0``; accepts scalars or numpy arrays, and
    returns a float for a 0-d input."""
    # Negated so that NaN, for which every comparison is False, fails too.
    if not np.all(np.asarray(x) >= 0.0):
        if np.any(np.isnan(x)):
            raise ValueError("function argument is NaN")
        raise ValueError("function argument must be >= 0")
    out = form(np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class FunctionSpec:
    """An increasing test function ``f`` on ``[0, inf)``.

    ``param`` is the exponential rate for ``exp``, the exponent for
    ``pow``, and ``None`` for the parameter-free families; ``forms``
    holds the unchecked closed forms.  Instances are immutable and
    hashable; equality and hash depend on ``(family, param)`` only.
    """

    family: Family
    param: float | None = None
    forms: _Forms = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rec = _FAMILIES[self.family]
        if rec.key is None:
            if self.param is not None:
                raise ValueError(
                    f"{self.family.value} takes no parameter, "
                    f"got {self.param}")
        # bool is an int, so it would pass as a number and print as True.
        elif (isinstance(self.param, bool)
              or not isinstance(self.param, numbers.Real)):
            raise ValueError(
                f"{rec.key} must be a real number, got {self.param!r}")
        else:
            # A plain float, so that spec_string's repr parses back; an
            # int or Fraction past the float range counts as infinite.
            try:
                param = float(self.param)
            except OverflowError:
                param = math.inf if self.param > 0 else -math.inf
            object.__setattr__(self, "param", param)
            if not math.isfinite(self.param):
                raise ValueError(
                    f"{rec.key} must be finite, got {self.param}")
            if not rec.valid(self.param):
                raise ValueError(
                    f"{rec.key} must be {rec.rule}, got {self.param}")
        object.__setattr__(self, "forms", rec.forms(self.param))

    # ------------------------------------------------------------------
    # evaluation

    def value(self, x):
        """``f(x)``; accepts scalars or numpy arrays, domain ``x >= 0``."""
        return _checked(self.forms.f, x)

    def deriv(self, x):
        """``f'(x)``.  At the ``remark2`` splice point the left slope is
        used (the two one-sided slopes agree there anyway)."""
        return _checked(self.forms.deriv, x)

    @property
    def f_zero(self) -> float:
        """``f(0)`` from the closed form: 1 for exponentials, 0 for the
        other families."""
        return self.forms.f_scalar(0.0)

    def inverse(self, y):
        """``f^{-1}(y)`` for ``y >= f(0)``, in closed form; accepts
        scalars or numpy arrays, like :meth:`value`, and returns a float
        for a 0-d input.

        Targets a hair below ``f(0)`` from float rounding are clamped to
        0; anything further below, and NaN, raises a range error.  The
        input is checked once as a whole, then each element goes through
        the family's scalar closed form.
        """
        f0 = self.f_zero
        ys = np.array(y, dtype=float)
        # Negated so that NaN, for which every comparison is False, is
        # caught too.
        low = ~(ys >= f0)
        if low.any():
            if np.isnan(ys).any():
                raise ValueError("inverse target is NaN")
            far = ys < f0 - _INVERSE_CLAMP * max(1.0, abs(f0))
            if far.any():
                raise ValueError(f"inverse target {float(ys[far][0])} "
                                 f"below f(0) = {f0}")
            ys[low] = f0  # whose inverse is 0
        out = np.fromiter(map(self.forms.inverse, ys.ravel().tolist()),
                          dtype=float, count=ys.size).reshape(ys.shape)
        return float(out) if ys.ndim == 0 else out

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


def is_class_s_family(spec: FunctionSpec) -> bool:
    """Whether the family is one for which the shift inequality is known
    to hold for every parameter value (all built-ins except ``remark2``)."""
    return _FAMILIES[spec.family].class_s
