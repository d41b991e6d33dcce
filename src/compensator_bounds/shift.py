"""Shift-inequality checks for expectations of increasing functions.

For the functions this package cares about, a nonnegative random
variable ``Y`` and any shift ``a >= 0`` satisfy::

    E f(a + Y)  <=  f(a + f^{-1}(E f(Y)))

with equality for exponentials and at ``a = 0``.  :func:`shift_gap`
measures the right side minus the left; :func:`property_scan` hammers
the inequality with seeded random discrete distributions, trial ``t``
drawn from row ``t`` of one ``Generator(Philox(seed))`` stream.  The
``remark2`` family is the built-in function that breaks the inequality,
and its fixed counterexample instance (a two-point coin on {0, 1} with
a unit shift) is always evaluated as trial zero of a scan.
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
# Uniforms per trial: the atom count, _MAX_ATOMS values, _MAX_ATOMS
# weights and the shift, three Philox4x64 blocks of four.
_UNIFORMS = 2 * _MAX_ATOMS + 2
# Trials drawn and evaluated per batch; bounds the scan's memory whatever
# the trial count.  At 2^10 the uniform block is 96 kB; 2^14 ran a
# 10^5-trial quad scan 4% faster and raised peak RSS by about 5 MB.
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
    violation (exp:lambda=10, 50000 trials, seed 1: about -4.47e11).
    Every field is the same whatever the scan's chunk size.
    """

    trials: int
    seed: int
    violations: int
    min_gap: float
    argmin_trial: int
    argmin_shift: float
    argmin_rv: DiscreteRV
    injected_gap: float


def _chunk_draws(seed: int, start: int,
                 stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shifts and zero-padded ``(rows, _MAX_ATOMS)`` values and
    probabilities of trials ``start .. stop-1``: trial ``t`` maps row
    ``t`` of ``Generator(Philox(seed)).random((trials, _UNIFORMS))``,
    read from ``Philox(seed)`` advanced past the rows before it.  The
    atom count is ``2 + floor(4 u_0)``, the values ``4 u``, the weights
    ``1 - u`` (never zero) and the shift ``2 u_11``.
    """
    bits = np.random.Philox(seed)
    bits.advance(_UNIFORMS // 4 * start)  # in blocks of four uniforms
    u = np.random.Generator(bits).random((stop - start, _UNIFORMS))
    atoms = (np.arange(_MAX_ATOMS)
             < 2 + ((_MAX_ATOMS - 1) * u[:, :1]).astype(np.intp))
    values = np.where(atoms, _VALUE_CAP * u[:, 1:_MAX_ATOMS + 1], 0.0)
    weights = np.where(atoms, 1.0 - u[:, _MAX_ATOMS + 1:-1], 0.0)
    rows = np.arange(stop - start)
    probs = weights / weights.sum(axis=1, keepdims=True)
    # The largest atom absorbs the rounding residue: the masses sum to 1.
    probs[rows, probs.argmax(axis=1)] += 1.0 - probs.sum(axis=1)
    return _SHIFT_CAP * u[:, -1], values, probs


def _random_instance(seed: int, trial: int) -> tuple[float, DiscreteRV]:
    """Instance of one random trial: its row of :func:`_chunk_draws`
    without the padding.  Atoms with equal values (about 10 * 2^-53 a
    trial) merge into the first, with their summed mass; only on such a
    row can the batched gap differ from :func:`shift_gap`, by rounding."""
    shifts, values, probs = _chunk_draws(seed, trial, trial + 1)
    masses: dict[float, float] = {}
    for v, p in zip(values[0].tolist(), probs[0].tolist()):
        if p > 0.0:  # padding has no mass
            masses[v] = masses.get(v, 0.0) + p
    return float(shifts[0]), DiscreteRV(tuple(masses.items()))


def _row_expectations(probs: np.ndarray, f_values: np.ndarray) -> np.ndarray:
    # One BLAS dot per row, the reduction np.dot makes in expect_f.  ddot
    # fuses each multiply into its add, so row sums and einsum differ in
    # the last bit; zero-probability padding adds an exact 0.
    return np.matmul(probs[:, None, :], f_values[:, :, None])[:, 0, 0]


def _chunk_gaps(spec: FunctionSpec, seed: int, start: int,
                stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaps and left sides ``E f(shift + Y)`` of trials ``start .. stop-1``,
    evaluated as one batch; each equals :func:`shift_gap` on the trial's
    instance bit for bit, unless two of its atoms tie."""
    shifts, values, probs = _chunk_draws(seed, start, stop)
    if start == 0:
        rv = COUNTEREXAMPLE_RV
        shifts[0], values[0], probs[0] = COUNTEREXAMPLE_SHIFT, 0.0, 0.0
        values[0, :len(rv.atoms)], probs[0, :len(rv.atoms)] = (rv.values,
                                                               rv.probs)

    f = spec.forms.f
    mean_f = _row_expectations(probs, f(values))
    lhs = _row_expectations(probs, f(shifts[:, None] + values))
    return f(shifts + spec.inverse(mean_f)) - lhs, lhs


def property_scan(spec: FunctionSpec, trials: int, seed: int) -> ScanReport:
    """Evaluate :func:`shift_gap` on ``trials`` seeded instances.

    Trial zero is always the fixed counterexample instance; trials
    ``1 .. trials-1`` are random with atom count uniform on ``[2, 5]``,
    values uniform on ``[0, 4]``, probabilities from a normalized uniform
    draw, and shift uniform on ``[0, 2]``, trial ``t`` read from row
    ``t`` of one ``Generator(Philox(seed))`` stream.  Deterministic given
    ``seed``.  Trials are drawn and then evaluated in batches of at most
    ``_CHUNK_TRIALS``, each from the stream advanced to its first row, so
    memory stays bounded however large ``trials`` is and the chunking
    changes no instance; every gap equals the scalar :func:`shift_gap`
    on its instance exactly, unless two of its atoms tie.  A gap counts
    as a violation below :data:`VIOLATION_THRESHOLD` times
    ``max(1, |E f(shift + Y)|)``, since its round-off grows with the
    values.  Raises ValueError when ``seed`` is negative, and when ``f``
    overflows float64 on the range the trials read.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    top = _VALUE_CAP + _SHIFT_CAP
    with np.errstate(over="ignore"):
        if not math.isfinite(spec.value(top)):
            raise ValueError(f"{spec} overflows float64 at {top}, inside "
                             f"the range [0, {top}] the trials read")

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
        trials=trials,
        seed=seed,
        violations=violations,
        min_gap=min_gap,
        argmin_trial=argmin_trial,
        argmin_shift=argmin_shift,
        argmin_rv=argmin_rv,
        injected_gap=injected_gap,
    )
