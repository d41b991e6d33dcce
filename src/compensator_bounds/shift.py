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

from .functions import FunctionSpec, vector_callable

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
# Trials drawn and evaluated per batch; bounds the scan's memory whatever
# the trial count.  At 2^10 each batch array is 40 kB; 2^14 ran no faster
# and left the process's peak RSS 0.5 MB higher.
_CHUNK_TRIALS = 1 << 10


@dataclass(frozen=True)
class DiscreteRV:
    """A finitely supported distribution on ``[0, inf)``.

    ``atoms`` is a tuple of ``(value, probability)`` pairs with distinct
    finite nonnegative values, strictly positive probabilities, and total
    mass one (within 1e-12).
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("distribution needs at least one atom")
        values = [v for v, _ in self.atoms]
        probs = [p for _, p in self.atoms]
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"atom values must be finite, got {values}")
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


def _check_shift(shift: float) -> None:
    # nan < 0 is False, so a plain sign test lets nan through.
    if not (math.isfinite(shift) and shift >= 0.0):
        raise ValueError(f"shift must be finite and >= 0, got {shift}")


def expect_f(spec: FunctionSpec, rv: DiscreteRV, shift: float = 0.0) -> float:
    """``E f(shift + Y)`` for ``Y ~ rv``."""
    _check_shift(shift)
    return float(np.dot(rv.probs, spec.value(shift + rv.values)))


def shift_gap(spec: FunctionSpec, shift: float, rv: DiscreteRV) -> float:
    """Right side minus left side of the shift inequality.

    Nonnegative (up to float noise) whenever the inequality holds for
    ``spec``; a return below :data:`VIOLATION_THRESHOLD` times
    ``max(1, |E f(shift + Y)|)`` is a violation.  This is the scalar
    oracle that :func:`property_scan` evaluates in batches.
    """
    _check_shift(shift)
    bound = spec.value(shift + spec.inverse(expect_f(spec, rv)))
    return bound - expect_f(spec, rv, shift)


@dataclass(frozen=True)
class ScanReport:
    """Outcome of :func:`property_scan`.

    ``min_gap`` / ``argmin_shift`` / ``argmin_rv`` describe the worst
    instance over the whole scan, trial zero included: the first trial
    whose gap is the strict minimum.  ``injected_gap`` is the gap of the
    fixed counterexample instance at trial zero.  ``min_gap`` is the
    absolute gap, while ``violations`` scales each gap by
    ``max(1, |E f(shift + Y)|)``, so a family with large values can show
    a large negative ``min_gap`` that is only round-off, with no
    violation (exp:lambda=10, 50000 trials, seed 1: about -2.66e11).
    Every field is the same whatever the scan's chunk size.
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


def _draw(seed: int, trial: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Shift, atom values and probabilities of one random trial, drawn
    from its own generator seeded with ``(seed, trial)``."""
    rng = np.random.default_rng((seed, trial))
    n_atoms = int(rng.integers(2, _MAX_ATOMS + 1))
    while True:
        values = rng.uniform(0.0, _VALUE_CAP, size=n_atoms)
        if len(set(values.tolist())) == n_atoms:
            break
    weights = rng.uniform(0.0, 1.0, size=n_atoms)
    while (weights <= 0.0).any():
        weights = rng.uniform(0.0, 1.0, size=n_atoms)
    probs = weights / weights.sum()
    # Absorb the normalization residue into the largest atom so the
    # masses sum to one exactly.
    probs[probs.argmax()] += 1.0 - probs.sum()
    return float(rng.uniform(0.0, _SHIFT_CAP)), values, probs


def _random_instance(seed: int, trial: int) -> tuple[float, DiscreteRV]:
    """Instance for one random trial, derived only from ``(seed, trial)``:
    each trial has its own seeded generator, so an instance does not
    depend on which trials were drawn before it or on the chunking of
    :func:`property_scan`."""
    shift, values, probs = _draw(seed, trial)
    atoms = tuple((float(v), float(p)) for v, p in zip(values, probs))
    return shift, DiscreteRV(atoms)


def _row_expectations(probs: np.ndarray, f_values: np.ndarray) -> np.ndarray:
    # One BLAS dot per row, the reduction np.dot makes in expect_f.  ddot
    # fuses each multiply into its add, so row sums and einsum differ in
    # the last bit; zero-probability padding adds an exact 0.
    return np.matmul(probs[:, None, :], f_values[:, :, None])[:, 0, 0]


def _chunk_gaps(spec: FunctionSpec, seed: int, start: int,
                stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaps and left sides ``E f(shift + Y)`` of trials ``start .. stop-1``,
    evaluated as one batch; each equals :func:`shift_gap` on the trial's
    instance bit for bit."""
    rows = stop - start
    shifts = np.empty(rows)
    values = np.zeros((rows, _MAX_ATOMS))
    probs = np.zeros((rows, _MAX_ATOMS))
    for row, trial in enumerate(range(start, stop)):
        if trial == 0:
            shift = COUNTEREXAMPLE_SHIFT
            v, p = COUNTEREXAMPLE_RV.values, COUNTEREXAMPLE_RV.probs
        else:
            shift, v, p = _draw(seed, trial)
        shifts[row] = shift
        values[row, :v.size] = v
        probs[row, :p.size] = p

    f = vector_callable(spec)
    mean_f = _row_expectations(probs, f(values))
    lhs = _row_expectations(probs, f(shifts[:, None] + values))
    offsets = np.array([spec.inverse(m) for m in mean_f])
    return f(shifts + offsets) - lhs, lhs


def property_scan(spec: FunctionSpec, trials: int, seed: int) -> ScanReport:
    """Evaluate :func:`shift_gap` on ``trials`` seeded instances.

    Trial zero is always the fixed counterexample instance; trials
    ``1 .. trials-1`` are random with atom count uniform on ``[2, 5]``,
    values uniform on ``[0, 4]``, probabilities from a normalized uniform
    draw, and shift uniform on ``[0, 2]``, each from its own generator
    seeded with ``(seed, trial)``.  Deterministic given ``seed``.  Trials
    are drawn and then evaluated in batches of at most ``_CHUNK_TRIALS``,
    so memory stays bounded however large ``trials`` is, and every gap
    equals the scalar :func:`shift_gap` exactly.  A gap counts as a
    violation below :data:`VIOLATION_THRESHOLD` times
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
    min_gap = math.inf
    argmin_trial = 0
    for start in range(0, trials, _CHUNK_TRIALS):
        gaps, lhs = _chunk_gaps(spec, seed, start,
                                min(start + _CHUNK_TRIALS, trials))
        if start == 0:
            injected_gap = float(gaps[0])
        violations += int(np.count_nonzero(
            gaps < VIOLATION_THRESHOLD * np.maximum(1.0, np.abs(lhs))))
        row = int(np.argmin(gaps))
        if gaps[row] < min_gap:
            min_gap = float(gaps[row])
            argmin_trial = start + row

    if argmin_trial == 0:
        argmin_shift, argmin_rv = COUNTEREXAMPLE_SHIFT, COUNTEREXAMPLE_RV
    else:
        argmin_shift, argmin_rv = _random_instance(seed, argmin_trial)
    return ScanReport(
        spec=spec,
        trials=trials,
        seed=seed,
        violations=violations,
        min_gap=min_gap,
        argmin_trial=argmin_trial,
        argmin_shift=argmin_shift,
        argmin_rv=argmin_rv,
        injected_gap=injected_gap,
    )
