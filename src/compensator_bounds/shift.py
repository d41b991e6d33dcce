"""Shift-inequality checks for expectations of increasing functions.

For the functions this package cares about, a nonnegative random
variable ``Y`` and any shift ``a >= 0`` satisfy::

    E f(a + Y)  <=  f(a + f^{-1}(E f(Y)))

with equality for exponentials and at ``a = 0``.  :func:`shift_gap`
measures the right side minus the left; :func:`property_scan` hammers
the inequality with seeded random discrete distributions.  The
``remark2`` family is the built-in function that breaks the inequality,
and its fixed counterexample instance (a two-point coin on {0, 1} with a
unit shift) is always evaluated as trial zero of a scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import FunctionSpec

__all__ = [
    "DiscreteRV",
    "ScanReport",
    "COUNTEREXAMPLE_RV",
    "COUNTEREXAMPLE_SHIFT",
    "VIOLATION_THRESHOLD",
    "expect_f",
    "shift_gap",
    "property_scan",
]

# A gap below this, times max(1, |E f(shift + Y)|), counts as a genuine
# violation rather than float dust.
VIOLATION_THRESHOLD = -1e-9

_PROB_TOL = 1e-12
# Random trials draw 2 .. _MAX_ATOMS atoms with values on [0, _VALUE_CAP]
# and a shift on [0, _SHIFT_CAP].
_MAX_ATOMS = 5
_VALUE_CAP = 4.0
_SHIFT_CAP = 2.0


@dataclass(frozen=True)
class DiscreteRV:
    """A finitely supported distribution on ``[0, inf)``.

    ``atoms`` is a tuple of ``(value, probability)`` pairs with distinct
    nonnegative values, strictly positive probabilities, and total mass
    one (within 1e-12).
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("distribution needs at least one atom")
        values = [v for v, _ in self.atoms]
        probs = [p for _, p in self.atoms]
        if any(v < 0.0 for v in values):
            raise ValueError(f"atom values must be >= 0, got {min(values)}")
        if len(set(values)) != len(values):
            raise ValueError("atom values must be distinct")
        if any(not 0.0 < p <= 1.0 for p in probs):
            raise ValueError("atom probabilities must lie in (0, 1]")
        total = sum(probs)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"atom probabilities sum to {total}, not 1")

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.atoms], dtype=float)

    @property
    def probs(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms], dtype=float)


# The fixed instance that witnesses the failure of the inequality for
# ``remark2``: Y uniform on {0, 1}, shifted by 1.
COUNTEREXAMPLE_RV = DiscreteRV(((0.0, 0.5), (1.0, 0.5)))
COUNTEREXAMPLE_SHIFT = 1.0


def expect_f(spec: FunctionSpec, rv: DiscreteRV, shift: float = 0.0) -> float:
    """``E f(shift + Y)`` for ``Y ~ rv``."""
    if shift < 0.0:
        raise ValueError(f"shift must be >= 0, got {shift}")
    return float(np.dot(rv.probs, spec.value(shift + rv.values)))


def _gap_and_lhs(spec: FunctionSpec, shift: float,
                 rv: DiscreteRV) -> tuple[float, float]:
    """:func:`shift_gap` and the left side ``E f(shift + Y)`` it
    subtracts."""
    if shift < 0.0:
        raise ValueError(f"shift must be >= 0, got {shift}")
    mean_f = expect_f(spec, rv)
    bound = spec.value(shift + spec.inverse(mean_f))
    lhs = expect_f(spec, rv, shift)
    return bound - lhs, lhs


def shift_gap(spec: FunctionSpec, shift: float, rv: DiscreteRV) -> float:
    """Right side minus left side of the shift inequality.

    Nonnegative (up to float noise) whenever the inequality holds for
    ``spec``; a return below :data:`VIOLATION_THRESHOLD` times
    ``max(1, |E f(shift + Y)|)`` is a violation.
    """
    return _gap_and_lhs(spec, shift, rv)[0]


@dataclass(frozen=True)
class ScanReport:
    """Outcome of :func:`property_scan`.

    ``min_gap`` / ``argmin_shift`` / ``argmin_rv`` describe the worst
    instance over the whole scan, trial zero included; ``injected_gap``
    is the gap of the fixed counterexample instance at trial zero.
    ``min_gap`` is the absolute gap, while ``violations`` scales each gap
    by ``max(1, |E f(shift + Y)|)``, so a family with large values can
    show a large negative ``min_gap`` that is only round-off, with no
    violation (exp:lambda=10, 50000 trials, seed 1: about -2.66e11).
    """

    spec: FunctionSpec
    trials: int
    seed: int
    violations: int
    min_gap: float
    argmin_trial: int
    argmin_shift: float
    argmin_rv: DiscreteRV
    injected_gap: float


def _random_instance(seed: int, trial: int) -> tuple[float, DiscreteRV]:
    """Instance for one trial, derived only from ``(seed, trial)`` so the
    scan is order-independent and safely parallelizable."""
    rng = np.random.default_rng((seed, trial))
    n_atoms = int(rng.integers(2, _MAX_ATOMS + 1))
    while True:
        values = rng.uniform(0.0, _VALUE_CAP, size=n_atoms)
        if len(set(values.tolist())) == n_atoms:
            break
    weights = rng.uniform(0.0, 1.0, size=n_atoms)
    while np.any(weights <= 0.0):
        weights = rng.uniform(0.0, 1.0, size=n_atoms)
    probs = weights / weights.sum()
    # Absorb the normalization residue into the largest atom so the
    # masses sum to one exactly.
    probs[int(np.argmax(probs))] += 1.0 - probs.sum()
    shift = float(rng.uniform(0.0, _SHIFT_CAP))
    atoms = tuple((float(v), float(p)) for v, p in zip(values, probs))
    return shift, DiscreteRV(atoms)


def property_scan(spec: FunctionSpec, trials: int, seed: int) -> ScanReport:
    """Evaluate :func:`shift_gap` on ``trials`` seeded instances.

    Trial zero is always the fixed counterexample instance; trials
    ``1 .. trials-1`` are random with atom count uniform on ``[2, 5]``,
    values uniform on ``[0, 4]``, probabilities from a normalized uniform
    draw, and shift uniform on ``[0, 2]``.  Deterministic given ``seed``.
    A gap counts as a violation below :data:`VIOLATION_THRESHOLD` times
    ``max(1, |E f(shift + Y)|)``, since its round-off grows with the
    values.  Raises ValueError when ``f`` overflows float64 on the range
    the trials read.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    top = _VALUE_CAP + _SHIFT_CAP
    if not math.isfinite(spec.value(top)):
        raise ValueError(f"{spec} overflows float64 at {top}, inside the "
                         f"range [0, {top}] the trials read")

    violations = 0
    min_gap = float("inf")
    argmin = (0, COUNTEREXAMPLE_SHIFT, COUNTEREXAMPLE_RV)
    injected_gap = 0.0

    for trial in range(trials):
        if trial == 0:
            shift, rv = COUNTEREXAMPLE_SHIFT, COUNTEREXAMPLE_RV
        else:
            shift, rv = _random_instance(seed, trial)
        gap, lhs = _gap_and_lhs(spec, shift, rv)
        if trial == 0:
            injected_gap = gap
        if gap < VIOLATION_THRESHOLD * max(1.0, abs(lhs)):
            violations += 1
        if gap < min_gap:
            min_gap = gap
            argmin = (trial, shift, rv)

    return ScanReport(
        spec=spec,
        trials=trials,
        seed=seed,
        violations=violations,
        min_gap=min_gap,
        argmin_trial=argmin[0],
        argmin_shift=argmin[1],
        argmin_rv=argmin[2],
        injected_gap=injected_gap,
    )
